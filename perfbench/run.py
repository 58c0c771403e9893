#!/usr/bin/env python3
"""Repository benchmark for hostcc-sim.

Builds `hostcc_sim` from the checkout it sits in, then runs one named
workload through the simulator's public command line and prints its
metrics. The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  python3 perfbench/run.py --workload paper_host --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 measures the end-to-end metrics with the profiler off: host wall
time (mean over the repetitions) and set-up time (the median), both scaled
by a machine-speed probe, and peak RSS of the simulator, plus the simulated
outcomes of the modelled hosts. --trace 1 alternates untraced runs with
runs under `--profile` + `--metrics` and prints the per-layer ledger (see
ledger.py).
`--workload all` runs every workload in turn and exits non-zero if any
check fails. See perfbench/README.md for why each workload and metric was
chosen.

Every invocation of the simulator is one attempted operation. It fails if it
exits non-zero, reports an invariant violation, a no-route drop or an orphan
packet, echoes another seed than it was given, or if its simulated outputs
differ from the workload's other runs (traced or not) under
`tools/run_diff.py`'s exact mode.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "hostcc"
BINARY = BUILD_DIR / "tools" / "hostcc_sim"
SPAWN = ROOT / ".bench_build" / "spawn"
PROBE = ROOT / ".bench_build" / "probe"
WORK_DIR = ROOT / ".bench_build" / "runs"
RUN_DIFF = ROOT / "tools" / "run_diff.py"

# A run must end within 180 s; no single invocation may take longer than this.
INVOCATION_TIMEOUT_S = 120
# Set-up (zero-length windows) costs 2-25 ms, so it is repeated and
# reported as the median: this many set-up runs follow each measured run,
# which spreads them over the whole run, and at least SETUP_REPS in all.
SETUP_PER_REP = 8
SETUP_REPS = 51
# At least this many measured invocations per run, even past --seconds:
# repeats are what the determinism check compares.
MIN_REPS = 3
# The machine-speed probe (probe.c) runs once after each measured run, as
# many copies at once as the workload has workers, and takes as long as its
# slowest copy: a sharded run waits for its slowest worker at every barrier.
# Its mean time over a run scales both host times: wall_s is the
# simulator's mean wall time and setup_s its median set-up time, each times
# PROBE_REF_S / the probe's mean time, i.e. the time on a machine where the
# probe takes PROBE_REF_S. PROBE_REF_S is the probe's time on a quiet 4-core
# Xeon VM at 2.0 GHz.
PROBE_STEPS = 1_000_000
PROBE_REF_S = 0.25
MIN_TRACED_PAIRS = 2
# A reported percentile fails the run unless this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
MAX_SEED = 2**53  # hostcc_sim parses --seed through a double

# Websearch RPC scenario. The seed is written into both the fabric and the
# workload RNG seeds. rate_hz is 4000 rather than the documented example's
# 2000 so that a 40 ms window completes more than 1000 RPC trees (P99 needs
# ten samples beyond it).
WEBSEARCH_RPC_CONF = """\
[fabric]
topology = leaf-spine:4x4
hostcc = true
degree = 1
seed = {seed}
warmup_ms = 2
measure_ms = 40

[workload]
arrival = poisson
load = 0.6
size_cdf = websearch
slots_per_pair = 8
reuse_cooldown_us = 200
seed = {seed}

[rpc]
fanout = 3
response_bytes = 32768
rate_hz = 4000
"""


def paper_host_args(run_dir, seed):
    # The paper's testbed: 4 long NetApp-T flows into one receiver whose
    # memory bus a degree-3 MApp saturates, with hostCC on and NetApp-L RPCs.
    # --flow-stats only records per-episode FCT (the RPCs); the traffic is
    # unchanged.
    return (
        ["--degree", "3", "--hostcc", "--rpc", "128", "--rpc", "32768",
         "--flow-stats", str(run_dir / "flows.csv")],
        [],  # the default 250 ms warm-up + 150 ms measurement
    )


def fabric_incast_args(run_dir, seed):
    # 64 full hosts, nearly all idle: MC quanta dominate, and two workers
    # expose barrier, channel and cell-balance costs.
    return (
        ["--topology", "fat-tree:8", "--hosts", "64", "--pattern", "incast",
         "--hostcc", "--degree", "2", "--flow-bytes", "65536", "--shards", "2"],
        ["--warmup", "10", "--measure", "40"],
    )


def websearch_rpc_args(run_dir, seed):
    conf = run_dir / "websearch_rpc.conf"
    conf.write_text(WEBSEARCH_RPC_CONF.format(seed=seed))
    # Windows come from the file; set-up overrides them with zeros.
    return (["--scenario", str(conf), "--shards", "1"], [])


def hybrid_640_args(run_dir, seed):
    # 639 analytic hosts and one full victim: the analytic tier and the
    # engine carry the time, MC quanta do not.
    return (
        ["--topology", "leaf-spine:16x40", "--fidelity", "auto",
         "--flow-bytes", "65536", "--shards", "1"],
        ["--warmup", "5", "--measure", "200"],
    )


WORKLOADS = {
    "paper_host": paper_host_args,
    "fabric_incast": fabric_incast_args,
    "websearch_rpc": websearch_rpc_args,
    "hybrid_640": hybrid_640_args,
}

# Metric names and units are the ones BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per-layer values that are host wall-clock readings, reported as medians
# over the traced (or untraced) repetitions. Every other per-layer value is
# a deterministic count and must repeat exactly.
WALL_CLOCK_LAYER_METRICS = {
    name for name, unit in PER_LAYER_UNITS.items() if unit == "host_s"
} | {"sim.trace_overhead"}


def build():
    """Builds hostcc_sim and the launcher; exits 1 without a result on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR.parent / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "hostcc_sim", "-j", jobs])
    steps.append(["cc", "-O2", "-o", str(SPAWN), str(HERE / "spawn.c")])
    steps.append(["cc", "-O2", "-o", str(PROBE), str(HERE / "probe.c")])
    t0 = time.perf_counter()
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                sys.stderr.write("build failed: " + " ".join(cmd) + "\n" + "\n".join(tail) + "\n")
                sys.exit(1)
    return time.perf_counter() - t0


class Invocation:
    """One simulator process: its exit status, host wall time and resource use."""

    def __init__(self, argv, run_dir, tag):
        self.stdout_path = run_dir / f"{tag}.json"
        self.problems = []
        self.result = None
        # The launcher forks and times the simulator itself, so neither this
        # script's fork cost nor its resident set is billed to the simulator.
        launch = subprocess.run(
            [str(SPAWN), str(INVOCATION_TIMEOUT_S), str(self.stdout_path),
             str(run_dir / f"{tag}.err"), str(BINARY)] + argv,
            stdout=subprocess.PIPE, text=True, check=True)
        code, wall_ns, cpu_us, maxrss_kib = (int(x) for x in launch.stdout.split())
        self.wall_s = wall_ns * 1e-9
        self.cpu_s = cpu_us * 1e-6
        self.peak_rss_mb = maxrss_kib / 1024.0
        if code != 0:
            self.problems.append(f"exit code {code}")
            return
        try:
            self.result = json.loads(self.stdout_path.read_text())
        except ValueError as e:
            self.problems.append(f"unparsable --json output: {e}")


def check_result(inv, seed):
    """Appends to inv.problems every health check its --json result fails."""
    r = inv.result
    if r is None:
        return
    meta = r.get("meta", {})
    if meta.get("seed") != seed:
        inv.problems.append(f"seed echoed as {meta.get('seed')}, expected {seed}")
    counters = {
        "invariant_violations": r.get("invariant_violations", 0),
        "no_route_drops": meta.get("no_route_drops", 0),
        "orphan_packets": r.get("workload", {}).get("orphan_packets", 0),
    }
    for name, value in counters.items():
        if value > 0:
            inv.problems.append(f"{name} = {value}")


def same_physics(a, b):
    """tools/run_diff.py exact mode on two results; returns its report or None."""
    proc = subprocess.run([sys.executable, str(RUN_DIFF), str(a.stdout_path), str(b.stdout_path)],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode == 0:
        return None
    return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "run_diff failed"


def check_repeats(reference, others):
    """Every run's simulated outputs must equal the reference run's exactly."""
    if reference.result is None:
        return
    for inv in others:
        if inv.result is None:
            continue
        diff = same_physics(reference, inv)
        if diff is not None:
            inv.problems.append(f"simulated outputs differ from {reference.stdout_path.name}: {diff}")


def percentiles(result):
    """(label, percent, value_us, samples) for every latency percentile reported."""
    fct = result.get("fct", {})
    rows = [
        ("fct_p50_us", 50, fct.get("fct_p50_us"), fct.get("episodes", 0)),
        ("fct_p99_us", 99, fct.get("fct_p99_us"), fct.get("episodes", 0)),
    ]
    rpc = result.get("rpc")
    if isinstance(rpc, list) and rpc:
        rows.append((f"rpc{rpc[0]['size']}B_p99_us", 99, rpc[0]["p99_us"], rpc[0]["count"]))
    elif rpc:
        rows.append(("rpc_fanin_p99_us", 99, rpc["p99_us"], rpc["trees_completed"]))
    return rows


def check_percentiles(inv):
    if inv.result is None:
        return
    for label, pct, value, samples in percentiles(inv.result):
        beyond = samples * (100 - pct) // 100
        print(f"  {label:<20} {value} sim_us  (P{pct} of {samples} samples, {beyond} beyond)")
        if value is None or beyond < MIN_SAMPLES_BEYOND:
            inv.problems.append(f"{label}: {beyond} samples beyond P{pct}, need {MIN_SAMPLES_BEYOND}")


def measured_loop(seconds, min_reps, step):
    """Calls step() until `seconds` would be overrun by one more call (min_reps at least)."""
    done = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done.append(step(len(done)))
        last = time.perf_counter() - t0
        if len(done) >= min_reps and time.perf_counter() - start + last > seconds:
            return done


def run_workload(name, seed, seconds, trace):
    """Runs one workload; returns (invocations, metrics)."""
    run_dir = WORK_DIR / f"{name}-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base, window = WORKLOADS[name](run_dir, seed)
    full = base + window + ["--seed", str(seed), "--json"]
    try:
        if trace:
            return run_traced(run_dir, full, seed, seconds)
        return run_untraced(run_dir, base, full, seed, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def probe_time(copies):
    """Runs `copies` probes at once; returns the slowest one's time in seconds."""
    procs = [subprocess.Popen([str(PROBE), str(PROBE_STEPS)], stdout=subprocess.PIPE, text=True)
             for _ in range(copies)]
    try:
        outs = [p.communicate(timeout=INVOCATION_TIMEOUT_S)[0] for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    if any(p.returncode != 0 for p in procs):
        raise RuntimeError("probe failed")
    return max(float(out.split()[0]) for out in outs)


def run_untraced(run_dir, base, full, seed, seconds):
    setup_argv = base + ["--warmup", "0", "--measure", "0", "--seed", str(seed), "--json"]
    setups = []

    def setup(n):
        for _ in range(n):
            setups.append(Invocation(setup_argv, run_dir, f"setup{len(setups)}"))

    workers = int(base[base.index("--shards") + 1]) if "--shards" in base else 1
    probes = []

    def rep(i):
        inv = Invocation(full, run_dir, f"rep{i}")
        setup(SETUP_PER_REP)
        probes.append(probe_time(workers))
        return inv

    reps = measured_loop(seconds, MIN_REPS, rep)
    setup(SETUP_REPS - len(setups))
    for inv in reps:
        check_result(inv, seed)
    check_repeats(reps[0], reps[1:])
    check_percentiles(reps[0])

    r = reps[0].result or {}
    fct = r.get("fct", {})
    walls = [inv.wall_s for inv in reps]
    setup_median = statistics.median(inv.wall_s for inv in setups)
    speed = PROBE_REF_S / statistics.mean(probes)
    metrics = {
        "wall_s": statistics.mean(walls) * speed,
        "setup_s": setup_median * speed,
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in reps),
        "goodput_gbps": r.get("net_tput_gbps", 0.0),
        "fct_p50_us": fct.get("fct_p50_us", 0.0),
        "fct_p99_us": fct.get("fct_p99_us", 0.0),
    }
    print(f"  {len(setups)} set-up runs (median {setup_median:.4f} s), "
          f"{len(reps)} measured runs: wall_s "
          + " ".join(f"{w:.3f}" for w in walls)
          + f" (mean {statistics.mean(walls):.3f}, median {statistics.median(walls):.3f})\n"
          + "  probe s " + " ".join(f"{p:.3f}" for p in probes)
          + f" (mean {statistics.mean(probes):.3f}; host times scaled by {speed:.3f})")
    return setups + reps, {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}


def run_traced(run_dir, full, seed, seconds):
    def pair(i):
        plain = Invocation(full, run_dir, f"plain{i}")
        traced = Invocation(full + ["--profile", str(run_dir / f"profile{i}.txt"),
                                    "--metrics", str(run_dir / f"metrics{i}.csv")],
                            run_dir, f"traced{i}")
        return plain, traced

    pairs = measured_loop(seconds, MIN_TRACED_PAIRS, pair)
    invocations = [inv for p in pairs for inv in p]
    for inv in invocations:
        check_result(inv, seed)
    check_repeats(pairs[0][0], invocations[1:])
    check_percentiles(pairs[0][0])

    ledgers = []
    for i, (plain, traced) in enumerate(pairs):
        if plain.result is None or traced.result is None:
            continue
        layers = ledger.layer_rollup((run_dir / f"metrics{i}.csv").read_text(),
                                     (run_dir / f"profile{i}.txt").read_text(),
                                     traced.cpu_s)
        layers.update(ledger.result_rollup(plain.result, layers["nic.arrived_pkts"]))
        layers["sim.trace_overhead"] = traced.wall_s / plain.wall_s
        ledgers.append((traced, layers))

    metrics = {}
    if ledgers:
        first = ledgers[0][1]
        for traced, layers in ledgers[1:]:
            moved = [k for k in layers
                     if k not in WALL_CLOCK_LAYER_METRICS and layers[k] != first[k]]
            if moved:
                traced.problems.append("deterministic layer counts differ between runs: "
                                       + ", ".join(sorted(moved)))
        for key in PER_LAYER_UNITS:
            values = [layers[key] for _, layers in ledgers]
            metrics[key] = (statistics.median(values) if key in WALL_CLOCK_LAYER_METRICS
                            else first[key])
    print(f"  {len(pairs)} untraced/traced pairs: trace overhead "
        + " ".join(f"{t.wall_s / p.wall_s:.2f}x" for p, t in pairs))
    return invocations, {k: (metrics.get(k, 0.0), u) for k, u in PER_LAYER_UNITS.items()}


def report(name, seed, trace, invocations, metrics):
    """Prints the metrics and problems of one workload; returns the result object."""
    failed = [inv for inv in invocations if inv.problems]
    for inv in failed:
        for problem in inv.problems:
            print(f"  FAILED {inv.stdout_path.stem}: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<32} {value:.6g} {unit}")
    ok = not failed and all(math.isfinite(v) for v, _ in metrics.values())
    print(f"{name} seed={seed} trace={trace}: {'correct' if ok else 'INCORRECT'}, "
        f"{len(invocations)} attempted, {len(failed)} failed")
    return {
        "correct": ok,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measured time per workload (default: %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < MAX_SEED:
        ap.error(f"--seed must be in [0, {MAX_SEED})")

    build_s = build()
    print(f"hostcc_sim built in {build_s:.1f} s; seed={args.seed} trace={args.trace}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        print(f"{name}:")
        invocations, metrics = run_workload(name, args.seed, args.seconds, args.trace)
        results.append(report(name, args.seed, args.trace, invocations, metrics))
    all_ok = all(r["correct"] for r in results)
    if args.workload == "all":
        print(f"all workloads: {sum(r['attempted'] for r in results)} attempted, "
            f"{sum(r['failed'] for r in results)} failed")
    for r in results:
        print(json.dumps(r))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
