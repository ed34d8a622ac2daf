"""Figure 6 cross-validation: the event-driven emulation reproduces
the analytic latency model.

The main Figure-6 bench computes transfer times from routed paths and
the store-and-forward formula.  This bench regenerates the same series
by actually *running* the transfers as timed messages over the DES
kernel — real deployed anchors, real layered crypto, per-message link
delays — and asserts (a) the paper's ordering holds and (b) every
emulated latency equals the analytic formula applied to the path the
message actually took.
"""

import pytest

from repro.core.emulation import CONTROL_BITS, TapEmulation
from repro.core.system import TapSystem
from repro.experiments.runner import render_table, rows_to_csv
from repro.simnet.topology import Topology
from repro.simnet.transport import store_and_forward

from conftest import paper_scale

FILE_BITS = 2_000_000.0


def _run_emulated_fig6(sizes, transfers):
    rows = []
    for n_nodes in sizes:
        system = TapSystem.bootstrap(num_nodes=n_nodes, seed=600 + n_nodes)
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=20)
        topo = Topology(seed=n_nodes)
        emu = TapEmulation.from_system(system, topology=topo)
        rng = system.seeds.pyrandom("fig6-emu")

        tunnels = {
            "tap-basic-l3": system.form_tunnel(alice, 3),
            "tap-opt-l3": system.form_tunnel(alice, 3, use_hints=True),
            "tap-basic-l5": system.form_tunnel(alice, 5),
            "tap-opt-l5": system.form_tunnel(alice, 5, use_hints=True),
        }
        acc = {name: [] for name in tunnels}
        mismatches = []
        for _ in range(transfers):
            dest = rng.getrandbits(128)
            for name, tunnel in tunnels.items():
                trace = emu.send_through_tunnel(
                    alice, tunnel, dest, b"f", size_bits=FILE_BITS
                )
                emu.simulator.run()
                assert trace.delivered, trace.failed_reason
                acc[name].append(trace.latency)
                analytic = store_and_forward(
                    [topo.latency(u, v) for u, v in zip(trace.path, trace.path[1:])],
                    FILE_BITS + CONTROL_BITS, topo.bandwidth_bps,
                )
                if abs(trace.latency - analytic) > 1e-9:
                    mismatches.append((name, trace.latency, analytic))
        assert mismatches == []
        for name, values in acc.items():
            rows.append(
                {
                    "figure": "fig6-emulated",
                    "num_nodes": n_nodes,
                    "scheme": name,
                    "transfer_time_s": sum(values) / len(values),
                }
            )
    return rows


def test_bench_fig6_emulated(benchmark, emit):
    sizes = (100, 300, 1_000) if paper_scale() else (100, 300)
    transfers = 10 if paper_scale() else 5
    rows = benchmark.pedantic(
        _run_emulated_fig6, args=(sizes, transfers), rounds=1, iterations=1
    )

    emit(
        "fig6_emulated",
        render_table(
            rows,
            columns=["num_nodes", "scheme", "transfer_time_s"],
            title="Figure 6 (event-driven emulation) — 2 Mb transfers "
                  "over the DES kernel, real anchors and crypto",
        ),
        rows_to_csv(rows),
    )

    by_n = {}
    for row in rows:
        by_n.setdefault(row["num_nodes"], {})[row["scheme"]] = row["transfer_time_s"]
    for schemes in by_n.values():
        assert schemes["tap-opt-l3"] < schemes["tap-basic-l3"]
        assert schemes["tap-opt-l5"] < schemes["tap-basic-l5"]
        assert schemes["tap-opt-l3"] < schemes["tap-opt-l5"]
