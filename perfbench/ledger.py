"""Per-layer roll-up of one hostcc_sim run.

Pure functions: they read the text of the run's outputs and return a flat
{metric name: number} dict. No files, no clocks, no subprocesses, so the
unit test can feed them small canned inputs.

- layer_rollup() turns a `--metrics` CSV and a `--profile` report into the
  per-layer counters and self times, including the untagged remainder.
- result_rollup() turns the run's `--json` result into the engine,
  workload, fidelity and observability counters.

Layer names follow the repository's modules. Registry counters are summed
by their path suffix over every host and switch; profiler tags
(`<instance>/<layer>`) are rolled up the same way.
"""

import csv
import io

# Profiler tag suffix -> (calls metric, self-time metric). The memory
# controller opens one scope per quantum, so its call count is the number of
# MC quanta executed.
PROFILE_LAYERS = {
    "memctrl": ("memctrl.quanta", "memctrl.self_s"),
    "nic": ("nic.calls", "nic.self_s"),
    "iio": ("iio.calls", "iio.self_s"),
    "cpu": ("cpu.calls", "cpu.self_s"),
    "transport": ("transport.calls", "transport.self_s"),
    "forward": ("fabric.forward_calls", "fabric.forward_self_s"),
}

# (metric, host-registry path suffix, how to combine over hosts, scale).
# "max_p99" takes the largest histogram P99 over hosts; the registry records
# histograms in picoseconds, so 1e-3 turns them into nanoseconds.
HOST_COUNTERS = [
    ("nic.arrived_pkts", "nic/arrived_pkts", "sum", 1.0),
    ("nic.credit_stalls", "nic/credit_stalls", "sum", 1.0),
    ("nic.dropped_pkts", "nic/dropped_pkts", "sum", 1.0),
    ("nic.queue_delay_p99_ns", "nic/queueing_delay_ps", "max_p99", 1e-3),
    ("pcie.transfers", "pcie/transfers", "sum", 1.0),
    ("pcie.bytes", "pcie/transferred_bytes", "sum", 1.0),
    ("iio.occupancy_lines_max", "iio/occupancy_lines", "max", 1.0),
    ("memctrl.util_max", "memctrl/utilization", "max", 1.0),
    ("memctrl.queue_wait_ns_max", "memctrl/queue_wait_ns", "max", 1.0),
    ("cpu.busy_us", "cpu/busy_us_total", "sum", 1.0),
    ("hostcc.samples", "hostcc/signals/samples", "sum", 1.0),
    ("hostcc.mba_writes", "mba/msr_writes", "sum", 1.0),
    ("hostcc.ecn_marked", "hostcc/ecn_marked", "sum", 1.0),
    ("hostcc.msr_read_p99_ns", "hostcc/signals/is_read_latency_ps", "max_p99", 1e-3),
    ("transport.timeouts", "transport/timeouts", "sum", 1.0),
    ("transport.fast_retransmits", "transport/fast_retransmits", "sum", 1.0),
    ("transport.retransmitted_bytes", "transport/retransmitted_bytes", "sum", 1.0),
]

# Switch-level fabric counters: `fabric/<switch>/<name>` in fabric mode and
# `fabric/<name>` for the single-switch testbed. Per-port rows
# (`.../port.../<name>`) repeat the switch totals and are skipped.
FABRIC_COUNTERS = [
    ("fabric.drops", "drops", "sum"),
    ("fabric.marks", "marks", "sum"),
    ("fabric.occupancy_peak_bytes", "occupancy_peak_bytes", "max"),
]


def parse_metrics_csv(text):
    """(name, value, p99) of each row of a `--metrics` CSV; an empty cell is None."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        value, p99 = (float(row[col]) if row[col] else None for col in ("value", "p99"))
        rows.append({"name": row["name"], "value": value, "p99": p99})
    return rows


def parse_profile(text):
    """(tag, scopes, total_us, self_us) for each tag row of a `--profile` report."""
    tags = []
    in_table = False
    for line in text.splitlines():
        if line.startswith("tag "):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.strip() or line.startswith("#"):
            break
        name, scopes, total_us, self_us = line.split()[:4]
        tags.append((name, int(scopes), float(total_us), float(self_us)))
    return tags


def _combine(values, how):
    if not values:
        return 0.0
    return max(values) if how.startswith("max") else sum(values)


def _is_host_row(name, suffix):
    # `<host>/<suffix>`: exactly one instance segment in front of the suffix.
    head, sep, rest = name.partition("/")
    return bool(sep) and rest == suffix and head != "fabric"


def _is_switch_row(name, leaf):
    parts = name.split("/")
    if parts[0] != "fabric" or parts[-1] != leaf:
        return False
    middle = parts[1:-1]
    return not middle or (len(middle) == 1 and not middle[0].startswith("port"))


def layer_rollup(metrics_csv, profile, traced_cpu_s):
    """Per-layer metrics from one traced run.

    metrics_csv: text of the `--metrics FILE.csv` dump.
    profile: text of the `--profile FILE` report.
    traced_cpu_s: CPU seconds (user + system, every thread) of that traced
      process. Tagged self time is summed over every worker, so the untagged
      remainder is taken against CPU time; on one worker that equals the
      traced wall time minus the tagged self time.
    """
    out = {}
    rows = parse_metrics_csv(metrics_csv)
    for metric, suffix, how, scale in HOST_COUNTERS:
        col = "p99" if how == "max_p99" else "value"
        values = [
            r[col] * scale
            for r in rows
            if _is_host_row(r["name"], suffix) and r[col] is not None
        ]
        out[metric] = _combine(values, how)
    for metric, leaf, how in FABRIC_COUNTERS:
        values = [r["value"] for r in rows if _is_switch_row(r["name"], leaf)]
        out[metric] = _combine(values, how)
    out["fidelity.hosts_full"] = float(
        sum(1 for r in rows if _is_host_row(r["name"], "cpu/processed_pkts"))
    )

    tagged_self_s = 0.0
    for calls, self_s in PROFILE_LAYERS.values():
        out[calls] = 0.0
        out[self_s] = 0.0
    for name, scopes, _total_us, self_us in parse_profile(profile):
        tagged_self_s += self_us * 1e-6
        layer = PROFILE_LAYERS.get(name.rsplit("/", 1)[-1])
        if layer is None:
            continue
        out[layer[0]] += scopes
        out[layer[1]] += self_us * 1e-6
    out["sim.untagged_self_s"] = max(0.0, traced_cpu_s - tagged_self_s)

    pkts = out["nic.arrived_pkts"]
    out["memctrl.quanta_per_pkt"] = out["memctrl.quanta"] / pkts if pkts else 0.0
    return out


def result_rollup(result, arrived_pkts):
    """Engine, workload, fidelity and observability counters from a `--json` result.

    result: the parsed JSON of an untraced run (the profiler's depth timer
      adds events, so event counts come from a run without it).
    arrived_pkts: NIC arrivals at full host models over the whole run, the
      denominator of the per-packet ratios (see layer_rollup).
    """
    meta = result.get("meta", {})
    workload = result.get("workload", {})
    rpc = result.get("rpc")
    fct = result.get("fct", {})
    events = float(meta.get("events_executed", 0))

    if isinstance(rpc, list):  # single-host testbed: one entry per RPC size
        rpc_samples = sum(entry["count"] for entry in rpc)
        rpc_p99 = rpc[0]["p99_us"] if rpc else 0.0
        trees_completed = trees_skipped = trees_started = 0
    elif rpc:  # fabric workload engine: fan-in RPC trees
        rpc_samples = trees_completed = rpc["trees_completed"]
        rpc_p99 = rpc["p99_us"]
        trees_skipped = rpc["trees_skipped"]
        trees_started = rpc["trees_started"]
    else:
        rpc_samples = rpc_p99 = trees_completed = trees_skipped = trees_started = 0

    flows_started = workload.get("flows_started", 0)
    flows_skipped = workload.get("flows_skipped", 0)
    offered = flows_started + flows_skipped + trees_started + trees_skipped
    skipped = flows_skipped + trees_skipped

    return {
        "sim.events": events,
        "sim.events_per_pkt": events / arrived_pkts if arrived_pkts else 0.0,
        "sim.epochs": float(meta.get("epochs", 0)),
        "sim.workers": float(meta.get("shards", 1)),
        "sim.max_cell_s": meta.get("shard_wall_ms", 0.0) * 1e-3,
        "workload.flows_started": float(flows_started),
        "workload.flows_skipped": float(flows_skipped),
        "workload.conn_opens": float(workload.get("conn_pool_opens", 0)),
        "workload.conn_reuses": float(workload.get("conn_pool_reuses", 0)),
        "workload.rpc_trees_completed": float(trees_completed),
        "workload.rpc_trees_skipped": float(trees_skipped),
        "workload.arrivals_skipped_pct": 100.0 * skipped / offered if offered else 0.0,
        "fidelity.promotions": float(meta.get("promotions", 0)),
        "fidelity.demotions": float(meta.get("demotions", 0)),
        "obs.fct_episodes": float(fct.get("episodes", 0)),
        "obs.rpc_samples": float(rpc_samples),
        "obs.rpc_p99_us": float(rpc_p99),
        "nic.host_drop_pct": float(result.get("host_drop_rate_pct", 0.0)),
        "fabric.drop_pct": float(result.get("fabric_drop_rate_pct", 0.0)),
        "memctrl.mapp_mem_util": float(result.get("mapp_mem_util", 0.0)),
    }
