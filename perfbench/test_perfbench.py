"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# workloads imports the simulator in the package's own order
# (importing repro.mac.csma first would hit an import cycle).
from workloads import run_cell, sim_digest, traced_cells, workloads  # noqa: E402
from spans import (  # noqa: E402
    Patches,
    Tracer,
    callback_span_name,
    layer_of_span,
)

from repro.mac.csma import CsmaMac  # noqa: E402
from repro.net.channel import WirelessChannel  # noqa: E402
from repro.net.node import Node  # noqa: E402
from repro.odmrp.protocol import OdmrpRouter  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.testbed.emulator import TestbedScenarioConfig, build_testbed_scenario  # noqa: E402


def fake_clock(*times: float):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_enclosed_spans():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 5.0, 10.0))
    tracer.open("outer")
    tracer.open("inner")
    tracer.close()
    tracer.open("inner")
    tracer.close()
    tracer.close()
    assert tracer.spans["outer"] == [1, 10.0, 7.0]
    assert tracer.spans["inner"] == [2, 3.0, 3.0]
    assert tracer.self_s("outer", "inner") == tracer.total_s("outer")


def test_self_time_of_grandchildren_goes_to_their_parent_only():
    tracer = Tracer(clock=fake_clock(0.0, 2.0, 3.0, 7.0, 8.0, 9.0))
    tracer.open("a")
    tracer.open("b")
    tracer.open("c")
    tracer.close()  # c: 3..7
    tracer.close()  # b: 2..8, encloses 4 s of c
    tracer.close()  # a: 0..9, encloses 6 s of b
    assert tracer.self_s("c") == 4.0
    assert tracer.self_s("b") == 2.0
    assert tracer.self_s("a") == 3.0


def test_callbacks_are_attributed_to_their_module():
    sim = Simulator()
    mac = CsmaMac(sim)
    assert callback_span_name(mac._backoff_done) == "event.mac"
    assert callback_span_name(OdmrpRouter.join_group) == "event.odmrp"
    assert callback_span_name(WirelessChannel._end_transmission) == "event.net"
    assert callback_span_name(lambda: None) == "event.other"


def test_span_names_map_to_layers():
    assert layer_of_span("event.net") == "phy"
    assert layer_of_span("event.sim") == "sim"
    assert layer_of_span("event.probing") == "probing"
    assert layer_of_span("sim.schedule") == "sim"
    assert layer_of_span("deliver.join_query") == "odmrp"
    assert layer_of_span("deliver.data") == "odmrp"
    assert layer_of_span("deliver.probe_pair_small") == "probing"
    assert layer_of_span("deliver.ack") == "phy"
    assert layer_of_span("mac.enqueue") == "mac"
    assert layer_of_span("phy.ledger.add_power") == "phy"


def test_patches_restore_every_original():
    originals = (Simulator.schedule, Node.deliver)
    tracer, patches = Tracer(), Patches()
    patches.wrap(tracer, Simulator, "schedule", "sim.schedule")
    patches.wrap(tracer, Node, "deliver", "deliver")
    assert Simulator.schedule is not originals[0]
    assert not patches.all_restored()
    patches.restore()
    assert (Simulator.schedule, Node.deliver) == originals
    assert patches.all_restored()


def short_testbed_cells():
    config = TestbedScenarioConfig(duration_s=40.0, run_seed=3)
    return [("odmrp", config), ("spp", config)]


def test_traced_pass_leaves_results_unchanged_and_adds_up():
    cells = short_testbed_cells()
    plain = [run_cell(build_testbed_scenario, p, c).result for p, c in cells]
    runs, tracer, patches = traced_cells(build_testbed_scenario, cells)
    assert patches.all_restored()
    assert sim_digest([run.result for run in runs]) == sim_digest(plain)
    layers = tracer.self_by_layer()
    assert {"sim", "phy", "mac", "odmrp", "probing", "traffic"} <= set(layers)
    assert abs(sum(layers.values()) - tracer.total_s("bench.pass")) < 1e-9
    assert tracer.calls("mac.enqueue") == tracer.calls("phy.begin_transmission")


def test_digest_is_stable_and_sensitive():
    cells = short_testbed_cells()
    first = [run_cell(build_testbed_scenario, p, c).result for p, c in cells]
    second = [run_cell(build_testbed_scenario, p, c).result for p, c in cells]
    assert sim_digest(first) == sim_digest(first) == sim_digest(second)
    assert sim_digest(first) != sim_digest(first[::-1])
    changed = [dataclasses.replace(first[0], delivered_packets=first[0].delivered_packets + 1)]
    assert sim_digest(changed + first[1:]) != sim_digest(first)
    # Host-side fields are not part of the simulated statistics.
    relabeled = [dataclasses.replace(first[0], telemetry_path="elsewhere")] + first[1:]
    assert sim_digest(relabeled) == sim_digest(first)


def test_workload_inputs_are_deterministic_per_seed(tmp_path):
    for name, workload in workloads(tmp_path).items():
        assert workload.cells(7) == workload.cells(7), name
        assert workload.cells(7) != workload.cells(8), name
