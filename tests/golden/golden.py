#!/usr/bin/env python3
"""Golden-output check: pins the simulated results of short runs, bit for bit.

Each case is one short `hostcc_sim --json` invocation shaped like a
benchmark workload (perfbench/). The check runs the case and compares its
JSON against the committed `<case>.json` with `tools/run_diff.py` in exact
mode, which skips only wall-clock and execution-policy fields. A change
that claims to be a pure speed-up must leave every case identical.

  python3 tests/golden/golden.py --sim build/tools/hostcc_sim --case fabric_incast
  python3 tests/golden/golden.py --sim build/tools/hostcc_sim --case all

A deliberate model change (anything that moves simulated numbers) must
regenerate the goldens in the same commit and say why in CHANGES.md:

  python3 tests/golden/golden.py --sim build/tools/hostcc_sim --case all --regenerate
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_DIFF = HERE.parent.parent / "tools" / "run_diff.py"

# Short versions of the four benchmark shapes, plus a hybrid run whose
# hosts promote and demote (park and unpark the packet-level kit).
CASES = {
    # 64 full hosts, nearly all idle, on two workers.
    "fabric_incast": [
        "--topology", "fat-tree:8", "--hosts", "64", "--pattern", "incast",
        "--hostcc", "--degree", "2", "--flow-bytes", "65536", "--shards", "2",
        "--warmup", "2", "--measure", "6", "--seed", "7",
    ],
    # Poisson websearch churn plus RPC fan-in on every host.
    "websearch_rpc": [
        "--scenario", str(HERE / "websearch_rpc.conf"), "--shards", "1", "--seed", "2",
    ],
    # The paper testbed: degree-3 MApp on the receiver, hostCC on.
    "paper_host": [
        "--degree", "3", "--hostcc", "--rpc", "128", "--rpc", "32768",
        "--warmup", "20", "--measure", "20", "--seed", "1",
    ],
    # 639 analytic hosts and one full victim.
    "hybrid_640": [
        "--topology", "leaf-spine:16x40", "--fidelity", "auto", "--flow-bytes", "65536",
        "--shards", "1", "--warmup", "2", "--measure", "20", "--seed", "7",
    ],
    # Senders promote under all-to-all congestion, then demote once their
    # four messages drain.
    "hybrid_churn": [
        "--topology", "leaf-spine:2x4", "--pattern", "all-to-all", "--fidelity", "auto",
        "--promote-threshold", "32768", "--flow-bytes", "65536",
        "--messages-per-flow", "4", "--warmup", "1", "--measure", "10", "--seed", "3",
    ],
}


def run_case(sim, name, out_path):
    with open(out_path, "w") as out:
        proc = subprocess.run([sim] + CASES[name] + ["--json"], stdout=out)
    if proc.returncode != 0:
        print(f"{name}: hostcc_sim exited {proc.returncode}", file=sys.stderr)
        return False
    return True


def check(sim, name):
    golden = HERE / f"{name}.json"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{name}.json"
        if not run_case(sim, name, out):
            return False
        diff = subprocess.run([sys.executable, str(RUN_DIFF), str(golden), str(out)])
    if diff.returncode != 0:
        print(f"{name}: output differs from {golden.name}", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sim", required=True, help="path to the hostcc_sim binary")
    ap.add_argument("--case", required=True, choices=sorted(CASES) + ["all"])
    ap.add_argument("--regenerate", action="store_true",
                    help="overwrite the committed goldens with this binary's output")
    args = ap.parse_args()

    names = sorted(CASES) if args.case == "all" else [args.case]
    ok = True
    for name in names:
        if args.regenerate:
            ok = run_case(args.sim, name, HERE / f"{name}.json") and ok
        else:
            ok = check(args.sim, name) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
