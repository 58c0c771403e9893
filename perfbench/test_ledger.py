#!/usr/bin/env python3
"""Unit tests for the per-layer roll-up. Run: python3 perfbench/test_ledger.py"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ledger  # noqa: E402

# Two hosts of a fabric run plus one switch, with the per-port and link rows
# that repeat switch totals and must not be counted twice.
FABRIC_CSV = """\
name,kind,value,count,min,p50,p99,p999,max
fabric/edge0/drops,counter,3,,,,,
fabric/edge0/marks,counter,10,,,,,
fabric/edge0/occupancy_peak_bytes,gauge,4000,,,,,
fabric/edge0/port/edge0-h0/drops,counter,3,,,,,
fabric/edge0/port/edge0-h0/marks,counter,10,,,,,
fabric/aggr0/drops,counter,1,,,,,
fabric/aggr0/occupancy_peak_bytes,gauge,9000,,,,,
fabric/invariants/violations,counter,0,,,,,
fabric/link/h0/down,gauge,0,,,,,
h0/cpu/busy_us_total,gauge,12.5,,,,,
h0/cpu/processed_pkts,counter,100,,,,,
h0/nic/arrived_pkts,counter,100,,,,,
h0/nic/credit_stalls,counter,7,,,,,
h0/nic/dropped_pkts,counter,2,,,,,
h0/nic/queueing_delay_ps,histogram,500,100,0,400,30000,40000,50000
h0/pcie/transfers,counter,98,,,,,
h0/pcie/transferred_bytes,counter,6272,,,,,
h0/iio/occupancy_lines,gauge,12,,,,,
h0/memctrl/utilization,gauge,0.5,,,,,
h0/memctrl/queue_wait_ns,gauge,20,,,,,
h0/hostcc/signals/samples,counter,40,,,,,
h0/hostcc/signals/is_read_latency_ps,histogram,700,40,600,700,786431,786431,786431
h0/hostcc/ecn_marked,counter,5,,,,,
h0/mba/msr_writes,counter,3,,,,,
h0/transport/timeouts,counter,1,,,,,
h0/transport/fast_retransmits,counter,2,,,,,
h0/transport/retransmitted_bytes,counter,4096,,,,,
h1/cpu/busy_us_total,gauge,2.5,,,,,
h1/cpu/processed_pkts,counter,60,,,,,
h1/nic/arrived_pkts,counter,60,,,,,
h1/nic/credit_stalls,counter,1,,,,,
h1/nic/queueing_delay_ps,histogram,500,60,0,400,60000,70000,80000
h1/iio/occupancy_lines,gauge,30,,,,,
h1/memctrl/utilization,gauge,0.25,,,,,
h1/memctrl/queue_wait_ns,gauge,50,,,,,
h1/mba/msr_writes,counter,4,,,,,
sim/events_executed,gauge,12345,,,,,
"""

# The single-switch testbed names its switch counters fabric/<name>.
TESTBED_CSV = """\
name,kind,value,count,min,p50,p99,p999,max
fabric/drops,counter,4,,,,,
fabric/marks,counter,6,,,,,
fabric/port0/drops,counter,4,,,,,
fabric/port0/marks,counter,6,,,,,
link/rx-uplink/down,gauge,0,,,,,
receiver/nic/arrived_pkts,counter,80,,,,,
receiver/cpu/processed_pkts,counter,80,,,,,
sender0/cpu/processed_pkts,counter,80,,,,,
"""

PROFILE = """\
# simulator self-profile (wall-clock; non-deterministic)
tag                                scopes     total_us      self_us   self%
edge0/forward                          50        200.0        150.0   10.0%
h0/nic                                 40        300.0        250.0   16.7%
h0/memctrl                           1000        600.0        500.0   33.3%
h1/memctrl                           1000        400.0        400.0   26.7%
h0/iio                                 30         50.0         50.0    3.3%
h0/cpu                                 20        100.0         60.0    4.0%
h0/transport                           20         40.0         40.0    2.7%
h0/mystery                              5         50.0         50.0    3.3%

# event-queue depth timeline (deterministic)
time_us,pending_events,events_executed
50.000000,0,242
"""


class LayerRollupTest(unittest.TestCase):
    def test_profile_tags_roll_up_by_layer_suffix(self):
        out = ledger.layer_rollup(FABRIC_CSV, PROFILE, traced_cpu_s=0.01)
        self.assertEqual(out["memctrl.quanta"], 2000)
        self.assertAlmostEqual(out["memctrl.self_s"], 900e-6)
        self.assertEqual(out["nic.calls"], 40)
        self.assertAlmostEqual(out["nic.self_s"], 250e-6)
        self.assertEqual(out["iio.calls"], 30)
        self.assertEqual(out["cpu.calls"], 20)
        self.assertAlmostEqual(out["cpu.self_s"], 60e-6)
        self.assertEqual(out["transport.calls"], 20)
        self.assertEqual(out["fabric.forward_calls"], 50)
        self.assertAlmostEqual(out["fabric.forward_self_s"], 150e-6)

    def test_untagged_remainder_counts_every_tag_including_unknown_ones(self):
        out = ledger.layer_rollup(FABRIC_CSV, PROFILE, traced_cpu_s=0.01)
        tagged_s = (150 + 250 + 500 + 400 + 50 + 60 + 40 + 50) * 1e-6
        self.assertAlmostEqual(out["sim.untagged_self_s"], 0.01 - tagged_s)
        # Never negative, even if timer granularity makes tags exceed CPU time.
        out = ledger.layer_rollup(FABRIC_CSV, PROFILE, traced_cpu_s=0.0)
        self.assertEqual(out["sim.untagged_self_s"], 0.0)

    def test_host_counters_sum_and_max_over_hosts(self):
        out = ledger.layer_rollup(FABRIC_CSV, PROFILE, traced_cpu_s=0.01)
        self.assertEqual(out["nic.arrived_pkts"], 160)
        self.assertEqual(out["nic.credit_stalls"], 8)
        self.assertEqual(out["nic.dropped_pkts"], 2)
        self.assertAlmostEqual(out["nic.queue_delay_p99_ns"], 60.0)  # max P99, ps -> ns
        self.assertEqual(out["pcie.transfers"], 98)
        self.assertEqual(out["pcie.bytes"], 6272)
        self.assertEqual(out["iio.occupancy_lines_max"], 30)
        self.assertEqual(out["memctrl.util_max"], 0.5)
        self.assertEqual(out["memctrl.queue_wait_ns_max"], 50)
        self.assertAlmostEqual(out["cpu.busy_us"], 15.0)
        self.assertEqual(out["hostcc.samples"], 40)
        self.assertEqual(out["hostcc.mba_writes"], 7)
        self.assertEqual(out["hostcc.ecn_marked"], 5)
        self.assertAlmostEqual(out["hostcc.msr_read_p99_ns"], 786.431)
        self.assertEqual(out["transport.timeouts"], 1)
        self.assertEqual(out["transport.fast_retransmits"], 2)
        self.assertEqual(out["transport.retransmitted_bytes"], 4096)
        self.assertEqual(out["fidelity.hosts_full"], 2)
        self.assertAlmostEqual(out["memctrl.quanta_per_pkt"], 2000 / 160)

    def test_switch_counters_skip_port_link_and_invariant_rows(self):
        out = ledger.layer_rollup(FABRIC_CSV, PROFILE, traced_cpu_s=0.01)
        self.assertEqual(out["fabric.drops"], 4)
        self.assertEqual(out["fabric.marks"], 10)
        self.assertEqual(out["fabric.occupancy_peak_bytes"], 9000)
        out = ledger.layer_rollup(TESTBED_CSV, "", traced_cpu_s=0.0)
        self.assertEqual(out["fabric.drops"], 4)
        self.assertEqual(out["fabric.marks"], 6)
        self.assertEqual(out["fidelity.hosts_full"], 2)

    def test_missing_layers_read_zero(self):
        out = ledger.layer_rollup(TESTBED_CSV, "", traced_cpu_s=0.0)
        self.assertEqual(out["memctrl.quanta"], 0)
        self.assertEqual(out["memctrl.quanta_per_pkt"], 0)
        self.assertEqual(out["hostcc.samples"], 0)
        self.assertEqual(out["fabric.occupancy_peak_bytes"], 0)


class ResultRollupTest(unittest.TestCase):
    def test_testbed_result(self):
        result = {
            "meta": {"seed": 1, "events_executed": 1000},
            "host_drop_rate_pct": 0.5,
            "mapp_mem_util": 0.16,
            "fct": {"episodes": 30},
            "rpc": [{"size": 128, "count": 20, "p99_us": 44.0},
                    {"size": 32768, "count": 10, "p99_us": 69.2}],
        }
        out = ledger.result_rollup(result, arrived_pkts=250)
        self.assertEqual(out["sim.events"], 1000)
        self.assertEqual(out["sim.events_per_pkt"], 4.0)
        self.assertEqual(out["sim.workers"], 1)
        self.assertEqual(out["sim.epochs"], 0)
        self.assertEqual(out["obs.rpc_samples"], 30)
        self.assertEqual(out["obs.rpc_p99_us"], 44.0)
        self.assertEqual(out["obs.fct_episodes"], 30)
        self.assertEqual(out["nic.host_drop_pct"], 0.5)
        self.assertEqual(out["memctrl.mapp_mem_util"], 0.16)
        self.assertEqual(out["workload.arrivals_skipped_pct"], 0.0)

    def test_workload_result(self):
        result = {
            "meta": {"events_executed": 500, "shards": 2, "epochs": 7, "shard_wall_ms": 250.0,
                     "promotions": 3, "demotions": 1},
            "fabric_drop_rate_pct": 0.1,
            "workload": {"flows_started": 60, "flows_skipped": 10, "conn_pool_opens": 40,
                         "conn_pool_reuses": 20, "orphan_packets": 0},
            "rpc": {"trees_started": 25, "trees_completed": 24, "trees_skipped": 5,
                    "p99_us": 900.0},
        }
        out = ledger.result_rollup(result, arrived_pkts=0)
        self.assertEqual(out["sim.events_per_pkt"], 0.0)
        self.assertEqual(out["sim.workers"], 2)
        self.assertEqual(out["sim.epochs"], 7)
        self.assertEqual(out["sim.max_cell_s"], 0.25)
        self.assertEqual(out["workload.conn_opens"], 40)
        self.assertEqual(out["workload.conn_reuses"], 20)
        self.assertEqual(out["workload.rpc_trees_completed"], 24)
        self.assertEqual(out["workload.rpc_trees_skipped"], 5)
        self.assertAlmostEqual(out["workload.arrivals_skipped_pct"], 100.0 * 15 / 100)
        self.assertEqual(out["obs.rpc_samples"], 24)
        self.assertEqual(out["fidelity.promotions"], 3)
        self.assertEqual(out["fidelity.demotions"], 1)
        self.assertEqual(out["fabric.drop_pct"], 0.1)


if __name__ == "__main__":
    unittest.main()
