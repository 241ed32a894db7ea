#!/usr/bin/env python3
"""Time the rounds of `fedprune run` from two source trees, in alternating fresh processes.

    python3 scripts/ab_rounds.py PARENT_SRC CHANGE_SRC --workload small_np --pairs 10

Each process runs the `fedprune run` command (the CLI path) once on the
config that `perfbench/workloads.py` builds for the workload and seed, with
one BLAS thread, and reports the median wall time of its rounds (calls of
`fedprune.federation.run_round`) and its peak resident set (VmHWM). Pair i
runs the parent first when i is even and the change first when it is odd.
The script prints one line per pair, then each side's median and quartiles
of the per-process round medians and of the per-process VmHWM, and in how
many pairs the change was faster and in how many its VmHWM was lower.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import BLAS_ENV, WORKLOADS  # noqa: E402  (imports neither numpy nor fedprune)

CHILD = r"""
import json, sys, time
src, config = sys.argv[1:]
sys.path.insert(0, src)
import fedprune.cli, fedprune.federation
if not fedprune.__file__.startswith(src):
    sys.exit(f"fedprune imported from {fedprune.__file__}, not from {src}")
times, run_round = [], fedprune.federation.run_round

def timed(*args):
    start = time.perf_counter()
    try:
        return run_round(*args)
    finally:
        times.append(time.perf_counter() - start)

fedprune.federation.run_round = timed
code = fedprune.cli.main(["run", "--config", config])
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"exit_code": code, "round_s": times, "vmhwm_kb": hwm}))
"""


def one_process(src: str, config: Path) -> tuple[float, float]:
    """(median seconds per round, VmHWM in MB) of one fresh `fedprune run` process."""
    env = {**os.environ, **{var: "1" for var in BLAS_ENV}}
    proc = subprocess.run([sys.executable, "-c", CHILD, src, str(config)],
                          capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if record.get("exit_code") != 0 or not record.get("round_s"):
        raise RuntimeError(f"fedprune run from {src} failed: {proc.stdout}{proc.stderr}")
    return statistics.median(record["round_s"]), record["vmhwm_kb"] / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="the parent commit's src/ directory")
    parser.add_argument("change_src", help="the change's src/ directory")
    federated = sorted(name for name, w in WORKLOADS.items() if w.federated)
    parser.add_argument("--workload", choices=federated, default="small_np")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sides = {"parent": str(Path(args.parent_src).resolve()), "change": str(Path(args.change_src).resolve())}
    medians: dict[str, list[float]] = {side: [] for side in sides}
    peaks: dict[str, list[float]] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        run_config = {**WORKLOADS[args.workload].run_config(args.seed), "out_dir": str(Path(tmp) / "out")}
        config.write_text(json.dumps(run_config))
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {side: one_process(sides[side], config) for side in order}
            for side, (median, mb) in got.items():
                medians[side].append(median)
                peaks[side].append(mb)
            (p, p_mb), (c, c_mb) = got["parent"], got["change"]
            print(f"pair {i}: parent {p * 1e3:.3f} ms {p_mb:.1f} MB, change {c * 1e3:.3f} ms "
                  f"{c_mb:.1f} MB, ratio {c / p:.3f}", flush=True)
    for side, values in medians.items():
        q1, q2, q3 = quartiles(values)
        print(f"{side}: median {q2 * 1e3:.3f} ms (Q1 {q1 * 1e3:.3f}, Q3 {q3 * 1e3:.3f})")
    for side, values in peaks.items():
        q1, q2, q3 = quartiles(values)
        print(f"{side} VmHWM: median {q2:.2f} MB (Q1 {q1:.2f}, Q3 {q3:.2f})")
    for verdict, values in (("faster", medians), ("lower", peaks)):
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        print(f"change {verdict} in {wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
